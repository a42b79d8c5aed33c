"""Training, evaluation, guidance, and the experiment suite.

Each submodule's ``__all__`` is the one list of its public names; the
package re-exports exactly those.
"""

from . import blob, experiments, optim, train
from .blob import *  # noqa: F403
from .experiments import *  # noqa: F403
from .optim import *  # noqa: F403
from .train import *  # noqa: F403

__all__ = [*optim.__all__, *train.__all__, *blob.__all__, *experiments.__all__]
