"""``python -m discountlab``: the ``discountlab`` command line."""

from .cli import main

raise SystemExit(main())
