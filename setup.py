"""Setup shim: this environment has no `wheel` package, so PEP 660
editable installs fail; `python setup.py develop` (or `pip install -e .`
on machines with wheel) both work."""

from setuptools import setup

setup()
