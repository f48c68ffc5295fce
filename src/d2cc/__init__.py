"""Dependency-to-CCG treebank conversion toolkit.

Converts dependency treebanks (CoNLL-U) into CCG derivation banks
(AUTO format) with a trainable tree-encoder scorer, A* decoding under
optional span/category constraints, and predicate-argument based
evaluation of the result.
"""

import os as _os

# One BLAS thread per process, unless set otherwise before d2cc (and so
# NumPy) loads.  ``convert`` and ``decode`` already run a process per CPU
# and fork no thread pool that way; a pool in each process made them
# slower than one process.  ``train`` gains nothing from more threads at
# these matrix sizes.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    _os.environ.setdefault(_name, "1")

from .categories import (Atomic, Category, FeatureSubstitution, Functor,
                         parse_category, print_category, strip_features,
                         unify_features)
from .decoder import (Constraint, ParseResult, apply_terminal_constraints,
                      astar_parse, check_constraint, convert, heuristic,
                      load_constraint_file, strip_dummies)
from .errors import (AlignmentError, AutoParseError, BudgetError,
                     CategoryParseError, CheckpointError, ConlluError,
                     ConstraintError, D2ccError, DataError, ExtractionError,
                     NoParseError, TrainingError, VocabularyError)
from .grammar import (Grammar, RuleKind, apply_binary, apply_unary,
                      default_grammar, load_grammar_config)
from .scores import ScoreMatrices, check_normalized, read_score_file, write_score_file
from .trees import (Binary, CCGTree, DepTree, Terminal, Unary,
                    extract_headfirst, iter_conllu, read_auto, read_conllu,
                    terminals, validate_tree, write_auto, write_conllu)

__version__ = "0.1.0"

# d2cc.pas loads on the first use of one of its names, so commands that
# extract no dependencies do not import it
_PAS_NAMES = ("Metrics", "PASDep", "evaluate", "extract_deps", "index_lexicon",
              "load_coindex_table", "write_pas_dump")


def __getattr__(name: str):
    if name in _PAS_NAMES:
        from . import pas
        return getattr(pas, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
