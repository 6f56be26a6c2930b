"""``python -m crtest``: the command line interface."""
from .cli import main

main()
