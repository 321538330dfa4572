"""``python -m vcodes``: the ``vcodes`` command line.  Importing it runs nothing."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
