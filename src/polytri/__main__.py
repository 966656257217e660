"""`python -m polytri` and the `polytri` script: both run `main`."""

import sys


def main() -> None:
    """Import the CLI and run `cli.main`, exiting with 130 and no
    traceback on a Ctrl-C that lands while the package is imported."""
    try:
        from polytri import cli
    except KeyboardInterrupt:
        sys.exit(130)
    cli.main()


if __name__ == "__main__":
    main()
