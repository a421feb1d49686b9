"""Packaging entry point.

The environment used for development has no ``wheel`` package available
offline, so PEP 660 editable installs (``pip install -e .`` with build
isolation) cannot build the editable wheel.  This classic setuptools file
keeps the ``pip install -e . --no-build-isolation --no-use-pep517`` path
(setuptools ``develop``) working and declares the runtime dependency:
``networkx`` for topology/routing graphs.  The package needs nothing
else; every simulation engine, the batched one included, is pure Python.
"""

from setuptools import find_packages, setup

setup(
    name="noc-deadlock",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=[
        "networkx",
    ],
)
