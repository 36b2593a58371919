"""Setuptools entry point for the ``repro`` package (``src/`` layout).

There is no ``pyproject.toml``: this file carries the project metadata.
Install in development mode, offline, with::

    pip install --no-build-isolation --no-deps -e .

Setuptools before 70.1 needs the ``wheel`` package for that; without it,
``python setup.py develop --no-deps`` installs the same editable package.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="ABONN: adaptive branch-and-bound tree exploration for neural "
                "network verification",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
    python_requires=">=3.10",
)
