"""``python -m qramsey``: the command line, as the installed ``qramsey`` script runs it."""

from .cli import entry

if __name__ == "__main__":
    entry()
