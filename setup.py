"""Legacy setup shim: ``python setup.py develop`` installs editable
without the wheel package.

Every package setting, the version included, lives in ``pyproject.toml``.
"""

from setuptools import setup

setup()
