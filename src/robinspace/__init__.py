"""Robinson dissimilarity spaces: recognition and tree representations.

Importing the package imports its library modules, so each is an
attribute of it (``robinspace.translate``) whichever other module a
caller imported; ``perfbench/workloads.py`` calls them that way.  The
command-line modules (``cli``, ``formats``, ``generator``, ``bench``)
load only when imported.
"""

from . import copoints, core, dendrogram, mmodtree, pqtree, refine, translate
from .core import DissimilarityMatrix, NotRobinson, RobinsonError

__all__ = ["DissimilarityMatrix", "NotRobinson", "RobinsonError"]
__version__ = "0.1.0"
