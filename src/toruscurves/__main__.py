"""Run the command-line interface: python -m toruscurves ARGS."""

from .cli import main

if __name__ == "__main__":
    main()
