"""The command line as ``python -m capsift`` and as the ``capsift`` script
(``capsift.__main__:main``): start numpy first (see ``capsift._startup``),
then run ``capsift.cli.main`` on the process's own arguments."""

import sys

from capsift._startup import start_numpy


def main() -> int:
    start_numpy()
    from capsift.cli import main as cli_main  # imports numpy, so after the start

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
