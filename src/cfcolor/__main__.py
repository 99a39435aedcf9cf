"""`python -m cfcolor`: the command-line front end, as the `cfcolor` script runs it."""

from .cli import main

main()
