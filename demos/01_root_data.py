"""Tour of the root-datum layer: Cartan matrices, Weyl groups, chambers.

Everything lives in the cocharacter lattice N = Z^l written in the coroot
basis, so reflections and chamber tests are pure integer arithmetic.
"""

from toroidal.rootdata import RootDatum

rd = RootDatum.of_type("A", 2)
print("Cartan matrix of A_2:", rd.cartan)
print("simple roots:", [rd.simple_root(i) for i in range(rd.rank)])
print("all roots:", sorted(rd.roots))
print("positive roots:", sorted(b for b in rd.roots if rd.is_positive_root(b)))

w = rd.weyl
print("\nWeyl group order:", w.order)
print("longest word:", rd.longest_word(), "of length", w.longest.length)
v = (1, 0)
for i in reversed(rd.longest_word()):  # a word acts right-to-left
    v = rd.reflect_cocharacter(i, v)
print("longest element sends e_0 to", v)

print("\nsimple reflection s_0 on cocharacters:")
for v in [(1, 0), (0, 1), (1, 1)]:
    print(f"  s_0{v} =", rd.reflect_cocharacter(0, v))

chamber = rd.negative_chamber()
print("\nnegative chamber rays:", chamber.rays)
print("(-1, -1) in negative chamber:", rd.in_negative_chamber((-1, -1)))
print("( 1,  0) in negative chamber:", rd.in_negative_chamber((1, 0)))

# the constructor rejects anything that is not finite type
try:
    RootDatum([[2, -2], [-2, 2]])
except ValueError as e:
    print("\naffine matrix rejected:", e)
