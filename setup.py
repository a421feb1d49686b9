"""Packaging entry point.

The environment used for development has no ``wheel`` package available
offline, so PEP 660 editable installs (``pip install -e .`` with build
isolation) cannot build the editable wheel.  This classic setuptools file
keeps the ``pip install -e . --no-build-isolation --no-use-pep517`` path
(setuptools ``develop``) working.  The package has no runtime dependency:
its graph algorithms (cycle search and enumeration, strongly connected
components, routing) run on its own int-indexed graphs, and every
simulation engine, the batched one included, is pure Python.  The tests
use networkx as an oracle for those algorithms.
"""

from setuptools import find_packages, setup

setup(
    name="noc-deadlock",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=[],
)
