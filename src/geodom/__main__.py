"""``python -m geodom``: the same command line as the ``geodom`` script."""
from .cli import main

main()
