"""Static analyzer recommending runtime-permission request insertion points,
plus a permission-usage corpus auditor."""

from . import hierarchy  # model.link_program reads build_hierarchy from it
from .model import load_app
from .permspec import load_groups, load_spec
