"""semkit: execute and evaluate semantic-parsing meaning representations.

Three executable environments (geography questions, social-network questions,
calendar action requests), four MR dialects (FunQL, full/simple lambda-DCS,
Dataflow-Simple) plus a restricted-Python dialect, execution-based evaluation,
demonstration selection, and prompt construction with domain descriptions.
"""

__version__ = "0.1.0"

from .corpus import Dataset, Example, Split, load_dataset, load_split, sample_demos
from .outcomes import CreatedEvent, Denotation, Outcome, WorldDelta

__all__ = [
    "Dataset", "Example", "Split", "load_dataset", "load_split", "sample_demos",
    "CreatedEvent", "Denotation", "Outcome", "WorldDelta", "__version__",
]
