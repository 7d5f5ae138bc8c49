"""``python -m dirac_tunneling``: the command line front end, as the ``dirac-tunneling`` script."""

from .cli import entry_point

if __name__ == "__main__":
    entry_point()
