"""``python -m iotsweep``: the same command line as the ``iotsweep`` script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
