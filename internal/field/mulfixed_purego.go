//go:build purego

package field

// hasFixedLimb is false under the purego tag: every Field constructed in
// this build dispatches to the generic CIOS loop, proving the fallback lane
// stays complete (CI runs the package tests this way).
const hasFixedLimb = false

// mulUnrolled4 is never reached when hasFixedLimb is false; the stub keeps
// the call site in Mul compiling without a build-tag fork there.
func mulUnrolled4(p *[Limbs]uint64, inv uint64, a, b Element) Element {
	panic("field: fixed-limb path called in purego build")
}

// mulUnrolled2 and mulAcc2 are likewise never reached: New leaves twoLimb
// false when hasFixedLimb is.
func mulUnrolled2(p *[Limbs]uint64, inv uint64, a, b Element) Element {
	panic("field: two-limb path called in purego build")
}

func mulAcc2(acc *[9]uint64, a, b *Element) {
	panic("field: two-limb path called in purego build")
}

func toMont2(p *[Limbs]uint64, inv uint64, x, c *Element) Element {
	panic("field: two-limb path called in purego build")
}
