"""The paper's comparators and the substrates only they use.

Nothing on the batch, serve or ingest path imports this package;
:func:`repro.core.api.compute_relationships` loads a module from here
only when its method is asked for.

Modules
-------
``cluster_method`` / ``clustering``
    The lossy clustering method (Algorithm 3) with k-means, x-means,
    canopy and hierarchical clustering.
``hybrid``
    Exact full containment and complementarity via cubeMasking,
    clustered partial containment (the future-work combination of
    Section 6).
``sparql_method`` / ``sparql``
    The SPARQL comparator of Section 4 and the SPARQL subset engine it
    runs on.
``rules_method`` / ``rules``
    The rule-based comparator of Section 4 and its forward-chaining
    engine.
``export``
    The observation space as an RDF graph, the input of both
    comparators.
"""
