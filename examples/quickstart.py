"""Quickstart: the paper's Figure 1 database and running examples Q0-Q2.

Builds the polling RIM-PPD from Figure 1 of the paper, evaluates the three
queries discussed in the introduction (exactly and approximately), and
validates one of them by sampling possible worlds.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.api import Count, TopK, answer
from repro.db.examples import polling_example
from repro.query import analyze, parse_query


def main() -> None:
    db = polling_example()
    print("Database:", db)
    print()

    # ------------------------------------------------------------------
    # Q0: does Ann (poll of 5/5) prefer Trump to both Clinton and Rubio?
    # A Boolean CQ over one session — the marginal of two preference pairs
    # under MAL(<Clinton, Sanders, Rubio, Trump>, 0.3).
    # ------------------------------------------------------------------
    q0 = parse_query(
        "P('Ann', '5/5'; 'Trump'; 'Clinton'), P('Ann', '5/5'; 'Trump'; 'Rubio')"
    )
    r0 = answer(q0, db)
    print(f"Q0 (Ann: Trump above Clinton and Rubio) = {r0.probability:.4f}")

    # ------------------------------------------------------------------
    # Q1: an itemwise CQ — is some female candidate preferred to some male
    # candidate in some session?  Compiles to the label pattern F > M.
    # ------------------------------------------------------------------
    q1 = parse_query(
        "P(_, _; c1; c2), C(c1, _, 'F', _, _, _), C(c2, _, 'M', _, _, _)"
    )
    analysis = analyze(q1, db)
    print(f"Q1 itemwise: {analysis.is_itemwise}")
    r1 = answer(q1, db)
    print(f"Q1 (female above male) = {r1.probability:.4f}")

    # ------------------------------------------------------------------
    # Q2: the paper's hard query — a Democrat preferred to a Republican
    # with the same education.  The shared variable e makes it
    # non-itemwise; Algorithm 2 grounds e over {BS, JD} and the engine
    # evaluates the union of the two itemwise rewritings.
    # ------------------------------------------------------------------
    q2 = parse_query(
        "P(_, _; c1; c2), C(c1, 'D', _, _, e, _), C(c2, 'R', _, _, e, _)"
    )
    analysis = analyze(q2, db)
    print(
        f"Q2 itemwise: {analysis.is_itemwise}; "
        f"V+(Q2) = {sorted(v.name for v in analysis.groundable)}"
    )
    r2 = answer(q2, db)
    print(f"Q2 (D above R, same edu) = {r2.probability:.4f}")
    for session in r2.per_session:
        print(f"   session {session.key}: {session.probability:.4f}")

    # Validate Q2 against the possible-world semantics by Monte Carlo.
    rng = np.random.default_rng(0)
    hits = 0
    n = 20_000
    for _ in range(n):
        world = db.sample_world(rng)
        if any(
            tau.prefers("Sanders", "Trump") or tau.prefers("Clinton", "Rubio")
            for tau in world.values()
        ):
            hits += 1
    print(f"Q2 Monte-Carlo check over {n} worlds: {hits / n:.4f}")
    print()

    # ------------------------------------------------------------------
    # Aggregates: Count-Session and Most-Probable-Session (Section 3.2).
    # ------------------------------------------------------------------
    count = answer(Count(q2), db)
    print(f"count(Q2) expectation = {count.expectation:.4f}")
    top = answer(TopK(q2, k=2, strategy="upper_bound"), db)
    print(
        "top(Q2, 2) =",
        [(key, round(p, 4)) for key, p in top.ranking],
        f"(exact evaluations: {top.stats['n_exact_evaluations']} of 3 sessions)",
    )

    # ------------------------------------------------------------------
    # Approximate evaluation with MIS-AMP-adaptive (Section 5).
    # ------------------------------------------------------------------
    approx = answer(
        q2, db, method="mis_amp_adaptive",
        seed=1, n_per_proposal=300,
    )
    print(f"Q2 via MIS-AMP-adaptive = {approx.probability:.4f}")


if __name__ == "__main__":
    main()
