"""Tests of the benchmark's oracle against memberships worked out by hand.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import unittest

import oracle as O


def P(text, n, p):
    return O.parse(text, n, p)


class PolynomialTests(unittest.TestCase):
    def test_parse_and_format_round_trip(self):
        f = P("2*x1^2*x3 + x2 + 1", 3, 3)
        self.assertEqual(f, {(2, 0, 1): 2, (0, 1, 0): 1, (0, 0, 0): 1})
        self.assertEqual(O.fmt(f), "2*x1^2*x3 + x2 + 1")
        self.assertEqual(P("0", 2, 2), {})

    def test_parse_rejects_foreign_text(self):
        with self.assertRaises(ValueError):
            P("x4", 3, 3)
        with self.assertRaises(ValueError):
            P("y1", 3, 3)

    def test_translate(self):
        # (x1 + 1)^2 = x1^2 + 2*x1 + 1 over F_3
        self.assertEqual(O.translate({(2, 0): 1}, (1, 0), 3), P("x1^2 + 2*x1 + 1", 2, 3))
        # over F_2, (x1 + 1)*(x2 + 1) = x1*x2 + x1 + x2 + 1
        self.assertEqual(O.translate({(1, 1): 1}, (1, 1), 2), P("x1*x2 + x1 + x2 + 1", 2, 2))
        # moving there and back is the identity
        f = P("x1^3 + 2*x1*x2 + x2", 2, 3)
        self.assertEqual(O.translate(O.translate(f, (1, 2), 3), (2, 1), 3), f)

    def test_monomials_and_grevlex(self):
        self.assertEqual(len(O.monomials(5, 2)), 15)
        ms = sorted(O.monomials(3, 2), key=O.grevlex_key, reverse=True)
        self.assertEqual(ms[0], (2, 0, 0))
        self.assertEqual(ms[-1], (0, 0, 2))
        # grevlex: x2^2 > x1*x3, since the last variable is the cheapest
        self.assertGreater(O.grevlex_key((0, 2, 0)), O.grevlex_key((1, 0, 1)))


class MembershipTests(unittest.TestCase):
    def test_monomial_ideal(self):
        I = O.GradedIdeal([P("x1^2", 2, 2), P("x1*x2", 2, 2)], 2, 2)
        self.assertFalse(I.contains(P("x1", 2, 2)))
        self.assertFalse(I.contains(P("x2^2", 2, 2)))
        self.assertTrue(I.contains(P("x1^2*x2 + x1*x2^2", 2, 2)))
        self.assertEqual(I.dim(2), 2)      # x1^2, x1*x2 out of 3 monomials

    def test_difference_of_squares(self):
        # x1^2 - x2^2 = (x1 - x2)(x1 + x2), and -1 = 2 in F_3
        I = O.GradedIdeal([P("x1 + x2", 3, 3), P("x3^2", 3, 3)], 3, 3)
        self.assertTrue(I.contains(P("x1^2 + 2*x2^2", 3, 3)))
        self.assertTrue(I.contains(P("x1^2 + 2*x2^2 + x3^2", 3, 3)))
        self.assertFalse(I.contains(P("x1*x2", 3, 3)))
        self.assertFalse(I.contains(P("x1^2", 3, 3)))

    def test_inhomogeneous_element_checked_by_components(self):
        I = O.GradedIdeal([P("x1^2", 2, 2), P("x1*x2", 2, 2)], 2, 2)
        w = P("x1 + x1*x2", 2, 2)           # x1 is not in I, x1*x2 is
        self.assertFalse(I.contains(w))
        self.assertEqual(I.killed_by_power_of_m(w, 2), 1)
        self.assertIsNone(I.killed_by_power_of_m(P("x2", 2, 2), 2))

    def test_generators_must_be_homogeneous(self):
        with self.assertRaises(ValueError):
            O.GradedIdeal([P("x1^2 + x2", 2, 3)], 2, 3)


class SaturationTests(unittest.TestCase):
    def test_torsion_found_in_degree_one(self):
        # (x1^2, x1*x2) : m contains x1, which is not in I
        I = O.GradedIdeal([P("x1^2", 2, 2), P("x1*x2", 2, 2)], 2, 2)
        self.assertEqual(I.colon_m_dim(1), 1)
        self.assertEqual(I.dim(1), 0)
        self.assertFalse(I.saturated_through(3))

    def test_saturated_ideals(self):
        self.assertTrue(O.GradedIdeal([P("x1", 2, 2)], 2, 2).saturated_through(3))
        # a complete intersection of two quadrics in five variables
        ci = O.GradedIdeal([P("x1^2 + x2*x3", 5, 3), P("x4^2 + 2*x5^2", 5, 3)], 5, 3)
        self.assertTrue(ci.saturated_through(3))

    def test_colength(self):
        self.assertEqual(O.GradedIdeal([P("x1", 2, 3), P("x2^2", 2, 3)], 2, 3).colength(4), 2)
        self.assertEqual(O.GradedIdeal([P("x1^2", 2, 3), P("x2^2", 2, 3)], 2, 3).colength(4), 4)
        self.assertIsNone(O.GradedIdeal([P("x1", 2, 3)], 2, 3).colength(6))


class FrobeniusMembershipTests(unittest.TestCase):
    def test_certificate_membership(self):
        # h = (x1^2, x1*x2), g = x1, q = 2: (x1^3*x2) * x1 = x1^4*x2 in (x1^4, x1^2*x2^2)
        h = [P("x1^2", 2, 2), P("x1*x2", 2, 2)]
        prod = O.mul(h[0], h[1], 2)
        target = O.mul(O.power(prod, 1, 2, 2), P("x1", 2, 2), 2)
        bracket = O.GradedIdeal([O.power(f, 2, 2, 2) for f in h], 2, 2)
        self.assertTrue(bracket.contains(target))

    def test_regular_sequence_never_certifies(self):
        # (x1*x2)^(q-1) is never in (x1^q, x2^q)
        for q in (2, 4, 8):
            h = [P("x1", 2, 2), P("x2", 2, 2)]
            bracket = O.GradedIdeal([O.power(f, q, 2, 2) for f in h], 2, 2)
            self.assertFalse(bracket.contains(O.power(P("x1*x2", 2, 2), q - 1, 2, 2)))


if __name__ == "__main__":
    unittest.main()
