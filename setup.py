"""Setuptools shim for offline editable installs (no wheel package available)."""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.5.0",
    description=(
        "ArrayFlex: a systolic array architecture with configurable transparent "
        "pipelining (DATE 2023) - full Python reproduction"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
