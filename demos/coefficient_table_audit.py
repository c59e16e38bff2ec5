# Audit of the closed-form amplitude tables for the boosted GHZ and W states.
#
# The GHZ table evaluated by ghz_coefficients reproduces the direct tensor
# transform exactly (one entry of the commonly quoted version is garbled; the
# corrected form is (s1*c2*c3 + c1*s2*s3)/sqrt(2) at slot |100>). The W table
# is messier: the variant that circulates disagrees with the true transform in
# every slot. Diffing it against both partner states shows why: five of its
# entries are actually the transform of the flipped state w_prime, and the
# other three carry typos that break normalization.

import numpy as np

from wignerqi import WignerAngles, make_state, product_transform
from wignerqi.oracle import audit_w_coefficient_table, ghz_coefficients, w_coefficients, w_variant_coefficients

rng = np.random.default_rng(3)
angles = WignerAngles(*rng.uniform(0, 2 * np.pi, 3))
print(f"angles/pi = ({angles[0]/np.pi:.3f}, {angles[1]/np.pi:.3f}, {angles[2]/np.pi:.3f})\n")

direct_ghz = product_transform(make_state("ghz_plus"), angles).amplitudes
print("ghz table vs direct transform, max |diff|:",
      f"{np.max(np.abs(ghz_coefficients(angles) - direct_ghz)):.2e}")

direct_w = product_transform(make_state("w"), angles).amplitudes
print("w table vs direct transform, max |diff|:  ",
      f"{np.max(np.abs(w_coefficients(angles) - direct_w)):.2e}")

variant = w_variant_coefficients(angles)
print(f"\nvariant w table norm: {np.linalg.norm(variant):.6f}  (a unitary image must have norm 1)")

mismatched, partner = audit_w_coefficient_table(angles)
print(f"variant vs direct w transform: mismatched slots {mismatched}")
print(f"variant slots equal to the w_prime transform: {partner}")

labels = [format(i, "03b") for i in range(8)]
direct_wp = product_transform(make_state("w_prime"), angles).amplitudes
print("\nslot  variant     w transform  w' transform")
for i in range(8):
    print(f"|{labels[i]}>  {variant[i].real: .6f}   {direct_w[i].real: .6f}    {direct_wp[i].real: .6f}")
