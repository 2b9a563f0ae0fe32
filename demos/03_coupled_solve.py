"""Solve one coupled problem and inspect the solver and the solution.

The manufactured force field makes a closed-form displacement an exact
equilibrium of the infinite lattice, so the coupled solve can be measured
against a known answer.

Run:  python demos/03_coupled_solve.py
"""

import numpy as np

from atc import (
    CoupledProblem,
    build_graded_mesh,
    exact_solution,
    make_decomposition,
    measure_errors,
)

GAMMA = 1.5

dec = make_decomposition(10, GAMMA)
mesh = build_graded_mesh(dec, GAMMA)
problem = CoupledProblem(dec, mesh, GAMMA)
print(f"unknowns: {problem.layout.sizes}  total {problem.layout.total}")

state, diag = problem.newton_solve()
print("\nNewton history (residual, step length, KKT solve residual):")
print(f"  0  {diag.residuals[0]:.3e}")
for i, (res, step, kkt) in enumerate(zip(diag.residuals[1:], diag.step_lengths,
                                         diag.kkt_residuals), 1):
    print(f"  {i}  {res:.3e}  {step:g}  {kkt:.1e}")

# the constraint blocks of the stationarity gradient are the residuals of
# the equilibrium equations and the two mean-zero integrals
print("\nfeasibility at the solution:")
g = problem.lagrangian_gradient(state)
layout = problem.layout
res_c = max(np.max(np.abs(g[layout[name]])) for name in ("lam_c_minus", "lam_c_plus"))
c_plus, c_minus = g[layout["eta"]]
print(f"  atomistic equilibrium: {np.max(np.abs(g[layout['lam_a']])):.2e}")
print(f"  continuum equilibrium: {res_c:.2e}")
print(f"  mean-zero integrals:   {abs(c_plus):.2e}, {abs(c_minus):.2e}")
print(f"  overlap mismatch:      "
      f"{problem.objective(state.u_a, state.u_c_minus, state.u_c_plus):.2e}")

err_l2, err_inf = measure_errors(problem, state)
print(f"\nerror vs the exact field: seminorm {err_l2:.3e}  max {err_inf:.3e}")

print("\ncomposite solution vs exact field near the core:")
vals = problem.assemble_atc_solution(state)
for xi in (0, 1, 2, 5, 10, 20, 50, 200, 1000):
    approx = vals[xi + dec.r_c]
    exact = float(exact_solution(xi, GAMMA))
    print(f"  u({xi:5d}) = {approx:+.8f}   exact {exact:+.8f}   "
          f"diff {approx - exact:+.1e}")
