"""``python -m mapgroups``: the command-line front end (see :mod:`.cli`)."""

from .cli import main_entry

if __name__ == "__main__":
    main_entry()
