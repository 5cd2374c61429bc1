"""Defining surfaces with the immersion DSL and evaluating exact 3-jets.

A surface in 4-space is four coordinate expressions of two parameters.
The evaluator returns the value together with the exact gradient,
Hessian and third partials, which is what every geometric quantity
downstream is built on.
"""

import numpy as np

from dirac_surface import eval_jet2, parse_expression, parse_immersion_file
from dirac_surface.corpus import corpus_path

# --- a single expression and its 3-jet --------------------------------------

ast = parse_expression("exp(u^2) * cos(v)", ("u", "v"))
jet = eval_jet2(ast, (0.5, 0.3))
print("expression  : exp(u^2) * cos(v) at (0.5, 0.3)")
print("value       :", jet.value)
print("gradient    :", jet.grad)
print("hessian     :", jet.hess, "(h11, h12, h22)")
print("third       :", jet.third, "(t111, t112, t122, t222)")

# cross-check the gradient against a central difference
h = 1e-6
fd = (
    eval_jet2(ast, (0.5 + h, 0.3)).value - eval_jet2(ast, (0.5 - h, 0.3)).value
) / (2 * h)
print("fd gradient :", fd, " (matches to ~1e-10)")

# --- a bundled immersion file ------------------------------------------------

print()
text = corpus_path("clifford").read_text()
print(text)
spec = parse_immersion_file(text)
print("name     :", spec.name)
print("periodic :", spec.periodic)
print("domain   :", np.round(spec.domain, 6).tolist())

# positions are jets of the four coordinate expressions
jets = [eval_jet2(c, (0.0, 0.0)) for c in spec.coord_exprs]
print("x(0, 0)  :", [round(j.value, 12) for j in jets])
print("dx/du    :", [round(j.grad[0], 12) for j in jets])
