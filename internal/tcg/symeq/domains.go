package symeq

import "math/bits"

// computeDomains fills e.kz/e.ko (known bits) and e.lo/e.hi (unsigned
// interval) from the operand domains. Called once at construction; Const,
// Var and Fun nodes set theirs directly. Both domains are conservative:
// a bit is marked known, or a bound tightened, only when it holds for every
// assignment of the free variables.
func (e *Expr) computeDomains() {
	x, y := e.X, e.Y
	e.kz, e.ko = 0, 0
	e.lo, e.hi = 0, ^uint64(0)

	switch e.Op {
	case Add:
		e.kz, e.ko = addKnown(x.kz, x.ko, y.kz, y.ko, 0)
		if s, carry := bits.Add64(x.hi, y.hi, 0); carry == 0 {
			e.lo, e.hi = x.lo+y.lo, s
		}
	case Sub:
		// a - b == a + ^b + 1, with ^b's known bits swapped.
		e.kz, e.ko = addKnown(x.kz, x.ko, y.ko, y.kz, 1)
		if x.lo >= y.hi {
			e.lo, e.hi = x.lo-y.hi, x.hi-y.lo
		}
	case Mul:
		// Trailing zeros accumulate; track only that low-bit mask.
		tz := bits.TrailingZeros64(^x.kz) + bits.TrailingZeros64(^y.kz)
		if tz > 63 {
			tz = 63
		}
		e.kz = (uint64(1) << tz) - 1
		if hi, lo := bits.Mul64(x.hi, y.hi); hi == 0 {
			e.lo, e.hi = x.lo*y.lo, lo
			if l, c := bits.Mul64(x.lo, y.lo); c != 0 || l != x.lo*y.lo {
				e.lo = 0
			}
		}
	case And:
		e.ko = x.ko & y.ko
		e.kz = x.kz | y.kz
		e.lo, e.hi = 0, minU(x.hi, y.hi)
	case Or:
		e.ko = x.ko | y.ko
		e.kz = x.kz & y.kz
		e.lo = maxU(x.lo, y.lo)
		e.hi = bitLenCeil(x.hi | y.hi)
	case Xor:
		e.ko = (x.ko & y.kz) | (x.kz & y.ko)
		e.kz = (x.kz & y.kz) | (x.ko & y.ko)
		e.lo, e.hi = 0, bitLenCeil(x.hi|y.hi)
	case Shl:
		if c, ok := y.IsConst(); ok {
			s := c & 63
			e.ko = x.ko << s
			e.kz = x.kz<<s | (uint64(1)<<s - 1)
			if x.hi <= (^uint64(0))>>s {
				e.lo, e.hi = x.lo<<s, x.hi<<s
			}
		}
	case Shr:
		if c, ok := y.IsConst(); ok {
			s := c & 63
			e.ko = x.ko >> s
			e.kz = x.kz>>s | ^((^uint64(0)) >> s)
			e.lo, e.hi = x.lo>>s, x.hi>>s
		}
	case Sar:
		if c, ok := y.IsConst(); ok {
			s := c & 63
			sign := uint64(1) << 63
			switch {
			case x.kz&sign != 0: // sign known clear: behaves like Shr
				e.ko = x.ko >> s
				e.kz = x.kz>>s | ^((^uint64(0)) >> s)
				e.lo, e.hi = x.lo>>s, x.hi>>s
			case x.ko&sign != 0: // sign known set: high bits fill with ones
				e.ko = uint64(int64(x.ko)>>s) | ^((^uint64(0)) >> s)
				e.kz = x.kz >> s
			default:
				e.ko = (x.ko >> s) &^ (^((^uint64(0)) >> s))
				e.kz = (x.kz >> s) &^ (^((^uint64(0)) >> s))
			}
		}
	case Eq, LtS, LtU:
		e.kz, e.ko = ^uint64(1), 0
		e.lo, e.hi = 0, 1
	case Div, DivU, Rem, RemU:
		// Totalized division: no useful bits in general.
	}

	// The domains sharpen each other: known bits bound the range, the range
	// can pin high bits.
	e.lo = maxU(e.lo, e.ko)
	e.hi = minU(e.hi, ^e.kz)
	if e.lo > e.hi {
		// Inconsistent only if a bug upstream; collapse to full range rather
		// than manufacture a false refutation.
		e.lo, e.hi = 0, ^uint64(0)
	}
	// High bits above the interval ceiling are known zero.
	e.kz |= ^bitLenCeil(e.hi)
}

// addKnown propagates known bits through a 64-bit add with the given
// initial carry, walking bit by bit with a three-valued carry.
func addKnown(akz, ako, bkz, bko uint64, carry int) (kz, ko uint64) {
	// carry: 0 known-zero, 1 known-one, 2 unknown
	for i := 0; i < 64; i++ {
		bit := uint64(1) << i
		aKnown := (akz|ako)&bit != 0
		bKnown := (bkz|bko)&bit != 0
		av := ako & bit
		bv := bko & bit
		if aKnown && bKnown && carry != 2 {
			sum := uint64(carry)
			if av != 0 {
				sum++
			}
			if bv != 0 {
				sum++
			}
			if sum&1 != 0 {
				ko |= bit
			} else {
				kz |= bit
			}
			carry = int(sum >> 1)
			continue
		}
		// Result bit unknown. The carry out is still known when the two
		// addend bits agree and force it regardless of carry in.
		switch {
		case aKnown && bKnown && av != 0 && bv != 0:
			carry = 1
		case aKnown && bKnown && av == 0 && bv == 0:
			carry = 0
		default:
			carry = 2
		}
	}
	return kz, ko
}

// bitLenCeil rounds v up to an all-ones mask of the same bit length.
func bitLenCeil(v uint64) uint64 {
	n := bits.Len64(v)
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << n) - 1
}

func minU(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
