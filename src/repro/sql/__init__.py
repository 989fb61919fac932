"""SQL layer: expressions, logical plans, parsing, and query building.

IntelliSphere's query language is SQL (§1): the master builds a logical
plan of SQL operators (scan, filter, project, join, aggregate) and decides
where each operator executes.  This package provides:

* :mod:`repro.sql.ast` — scalar expressions and predicates;
* :mod:`repro.sql.logical` — logical plan operator tree;
* :mod:`repro.sql.parser` — a compact SQL ``SELECT`` parser;
* :mod:`repro.sql.builder` — a fluent programmatic plan builder.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(
    globals(),
    {
        ".ast": (
            "AggregateCall",
            "AggregateKind",
            "BinaryArithmetic",
            "BooleanAnd",
            "BooleanNot",
            "BooleanOr",
            "ColumnRef",
            "Comparison",
            "ComparisonOp",
            "Expression",
            "Literal",
            "column",
            "lit",
        ),
        ".logical": (
            "Aggregate",
            "Filter",
            "Join",
            "JoinCondition",
            "LogicalPlan",
            "Project",
            "Scan",
        ),
        ".parser": ("parse_select",),
        ".builder": ("QueryBuilder", "scan"),
        ".render": ("render_expression", "render_plan"),
    },
)
