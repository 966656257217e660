"""`python -m polytri` and the `polytri` script: both run `main`."""

import sys


def main() -> None:
    """Import the CLI, run the command of sys.argv and exit with its code,
    or with 130 and no traceback on Ctrl-C, one that lands while the
    package is imported included."""
    try:
        from polytri import cli

        sys.exit(cli.run())
    except KeyboardInterrupt:
        sys.exit(130)


if __name__ == "__main__":
    main()
