"""Forward-chaining rule engine (Jena generic-rule-reasoner analogue).

The paper's rule-based comparator encodes containment and
complementarity as forward rules with universal/existential
quantification over dimension values.  This subpackage provides:

* a Jena-like rule syntax (:mod:`repro.paper.rules.parser`),
* builtins such as ``notEqual`` (:mod:`repro.paper.rules.builtins`),
* a semi-naive forward-chaining engine (:mod:`repro.paper.rules.engine`).
"""

from repro.paper.rules.ast import Atom, BuiltinCall, Rule, RuleVar
from repro.paper.rules.engine import RuleEngine
from repro.paper.rules.parser import parse_rules

__all__ = ["Rule", "Atom", "BuiltinCall", "RuleVar", "RuleEngine", "parse_rules"]
