"""Entry point for ``python -m minimage``; same as the ``minimage`` script."""

from .cli import main

if __name__ == "__main__":
    main()
