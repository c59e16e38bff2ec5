# Average pair capacity under the boost: provably flat for the pure product
# transform, genuinely decaying once the momentum branches are traced out.
#
# A per-qubit rotation cannot change any reduced-state spectrum, so entropies
# and capacities of the boosted pure state are angle-independent. The one
# mechanism in this model that does degrade anything is the two-branch
# momentum superposition: with opposite Wigner angles on the two branches,
# tracing the momentum out leaves a genuinely mixed spin state.

import math

import numpy as np

from wignerqi import (
    MomentumConfig,
    WignerAngles,
    average_capacity,
    concurrence,
    make_state,
    momentum_traced_channel,
    pair_capacity,
    product_transform,
    reduced,
    to_density,
    von_neumann_entropy,
    PureState,
)

rng = np.random.default_rng(7)

print("pure transform: average capacity over 8 random angle triples")
for tag in ("ghz_plus", "w"):
    values = []
    for _ in range(8):
        angles = WignerAngles(*rng.uniform(0, 2 * math.pi, 3))
        boosted = product_transform(make_state(tag), angles)
        values.append(average_capacity(boosted).average)
    print(f"  {tag:9s}: min {min(values):.12f}  max {max(values):.12f}")

bell = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2))
print(f"\nbell pair capacity (the two-qubit ceiling): {pair_capacity(to_density(bell)):.6f}")

print("\nmomentum-traced channel at alpha = pi/4, opposite branch angles:")
print("  Omega/pi   S(rho)    avg capacity   C(rho_ab)  [state w]")
w = make_state("w")
for omega in np.linspace(0, math.pi, 9):
    rho = momentum_traced_channel(w, (omega, omega, omega), MomentumConfig(math.pi / 4))
    entropy = von_neumann_entropy(rho)
    cap = average_capacity(rho).average
    conc = concurrence(reduced(rho, (0, 1)))
    print(f"  {omega / math.pi:6.3f}   {entropy:7.4f}   {cap:10.6f}     {conc:7.4f}")

print("\nthe pure transform alone never mixes (S = 0 up to rounding):")
rho = to_density(product_transform(w, (1.0, 2.0, 0.5)))
print(f"  S(rho) = {von_neumann_entropy(rho):.2e}")
