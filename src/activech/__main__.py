"""``python -m activech``: the command-line interface of :mod:`activech.cli`."""

from .cli import entry

if __name__ == "__main__":
    entry()
