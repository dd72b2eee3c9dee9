"""python -m lockhound: the lockhound command line."""

from .cli import main

raise SystemExit(main())
