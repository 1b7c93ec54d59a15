"""`python -m eebnn` runs the command-line interface."""

from .cli import entry

entry()
