"""``python -m gbmsim``: the same command line as the ``gbmsim`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
