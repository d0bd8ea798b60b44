"""``python -m vlcfair``: the command-line interface of ``vlcfair.cli``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
