"""Static analyzer recommending runtime-permission request insertion points,
plus a permission-usage corpus auditor."""

from .model import load_app
from .permspec import load_groups, load_spec
