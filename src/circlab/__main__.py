"""Run the command line from a checkout: ``python -m circlab ...``."""
from .cli import main

raise SystemExit(main())
