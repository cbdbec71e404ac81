"""``python -m mpslink``: the ``mpslink`` command line."""

from mpslink.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
