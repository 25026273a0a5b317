"""Recover both register seeds from a short intercepted keystream prefix."""

from shrinkca import (
    BitSeq,
    Exhausted,
    FieldTable,
    GeneratorSpec,
    Gf2Poly,
    full_attack,
    linearize_generator,
    min_poly_of_power,
    phase1_reconstruct,
    phase2_search,
    shrink_generate,
)

public = GeneratorSpec(4, 5, Gf2Poly.parse("0,3,4"), Gf2Poly.parse("0,1,3,4,5"))
intercepted = BitSeq.parse("101000011001110011010011")
print(f"public parameters: l1={public.l1}, l2={public.l2}, c1={public.c1}, c2={public.c2}")
print(f"intercepted prefix ({len(intercepted)} bits): {intercepted}")

print()
print("-- phase 1: free keystream bits from automaton window identities --")
pair = linearize_generator(public.l1, public.c2)
table = FieldTable.build(min_poly_of_power(public.c2, 15))
known, records = phase1_reconstruct(intercepted, pair, public.l1, table)
for rec in records:
    span = f"{rec.positions[0]}..{rec.positions[-1]}"
    print(
        f"  cell {rec.cell}, depth {rec.power}: offsets {rec.offsets}"
        f" -> positions {span}"
    )
derived = sorted(known.positions("reconstructed"))
print(f"  {len(derived)} keystream bits recovered beyond the intercept")

print()
print("-- phase 2: prune control seeds against the recovered columns --")
# full_attack searches the intercept alone, which finds the same seeds: phase 1's
# bits add no rank.  The search on phase 1's bits rejects some columns earlier.
for rec in phase2_search(known, public, table).records:
    prefix = "".join(map(str, rec.prefix))
    if rec.outcome == "rejected":
        print(f"  {prefix:<6} column {rec.column}: contradiction at row {rec.row}")
    elif rec.outcome == "survivor":
        print(f"  {prefix:<6} survives every column")

result = full_attack(intercepted, public)
print()
print(f"recovered seeds: is1={''.join(map(str, result.is1))}"
      f" is2={''.join(map(str, result.is2))}")
print(f"nodes expanded: {result.nodes_expanded}")
truth = public.with_seeds(result.is1, result.is2)
assert list(result.keystream) == list(shrink_generate(truth, len(result.keystream)))
print(f"full {len(result.keystream)}-bit period regenerated; prefix matches:",
      str(result.keystream).startswith(str(intercepted)))

print()
print("-- tampered material is detected --")
flipped = BitSeq((intercepted.bits[0] ^ 1,) + intercepted.bits[1:])
try:
    full_attack(flipped, public)
except Exhausted as exc:
    print(f"  one flipped bit: {exc}")
