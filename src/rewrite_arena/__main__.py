"""`python -m rewrite_arena ...` runs the `rewrite-arena` command line."""
from .cli import main

raise SystemExit(main())
