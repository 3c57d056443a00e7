"""Boolean Toeplitz matrices: exact periods, competition graphs, walks.

Each module's `__all__` is its public surface; the package re-exports it.
"""

from .boolmat import *  # noqa: F401,F403
from .compgraph import *  # noqa: F401,F403
from .packed import *  # noqa: F401,F403
from .spectra import *  # noqa: F401,F403
from .toeplitz import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403
from .walks import *  # noqa: F401,F403

__version__ = "0.1.0"
