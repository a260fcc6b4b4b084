package isa

import "fmt"

// Integer register ABI assignments. X0 is hardwired to zero; writes to it
// are discarded. The calling convention used by the assembler, the mini-C
// compiler and the guest runtime:
//
//	X0      zero
//	X1  RA  return address
//	X2  SP  stack pointer (16-byte aligned at calls)
//	X3  GP  global pointer (unused, reserved)
//	X4  TP  thread pointer (set by the runtime to the TCB address)
//	X5-X9   T0-T4 caller-saved temporaries
//	X10-X17 A0-A7 arguments/results; A7 carries the syscall number
//	X18-X27 S0-S9 callee-saved
//	X28-X31 T5-T8 caller-saved temporaries
const (
	RegZero = 0
	RegRA   = 1
	RegSP   = 2
	RegGP   = 3
	RegTP   = 4
	RegT0   = 5
	RegA0   = 10
	RegA1   = 11
	RegA2   = 12
	RegA3   = 13
	RegA4   = 14
	RegA5   = 15
	RegA6   = 16
	RegA7   = 17
	RegS0   = 18
	RegT5   = 28
)

// NumRegs is the number of integer (and separately, FP) registers.
const NumRegs = 32

// regNames maps ABI names to register numbers; populated in init.
var regNames = map[string]uint8{}

// intRegName holds the canonical (ABI) name for each integer register.
var intRegName [NumRegs]string

func init() {
	abi := map[string]uint8{
		"zero": 0, "ra": 1, "sp": 2, "gp": 3, "tp": 4,
		"t0": 5, "t1": 6, "t2": 7, "t3": 8, "t4": 9,
		"a0": 10, "a1": 11, "a2": 12, "a3": 13, "a4": 14, "a5": 15, "a6": 16, "a7": 17,
		"s0": 18, "s1": 19, "s2": 20, "s3": 21, "s4": 22, "s5": 23, "s6": 24, "s7": 25, "s8": 26, "s9": 27,
		"t5": 28, "t6": 29, "t7": 30, "t8": 31,
	}
	for name, n := range abi {
		regNames[name] = n
		intRegName[n] = name
	}
	for i := 0; i < NumRegs; i++ {
		regNames[fmt.Sprintf("x%d", i)] = uint8(i)
	}
}

// IntRegNumber resolves an integer register name ("x7", "a0", "sp", ...).
// The names the compiler writes — a0-a7, s0-s9, t0-t8, sp and ra — are
// decoded from their two bytes; every other name is looked up in regNames.
func IntRegNumber(name string) (uint8, bool) {
	if len(name) == 2 {
		switch c, d := name[0], name[1]-'0'; {
		case c == 'a' && d <= 7:
			return RegA0 + d, true
		case c == 's' && d <= 9:
			return RegS0 + d, true
		case c == 't' && d <= 4:
			return RegT0 + d, true
		case c == 't' && d <= 8:
			return RegT5 + d - 5, true
		case name == "sp":
			return RegSP, true
		case name == "ra":
			return RegRA, true
		}
	}
	n, ok := regNames[name]
	return n, ok
}

// FRegNumber resolves an FP register name ("f0".."f31", no leading zeros).
func FRegNumber(name string) (uint8, bool) {
	if len(name) < 2 || len(name) > 3 || name[0] != 'f' || len(name) == 3 && name[1] == '0' {
		return 0, false
	}
	n := 0
	for _, c := range []byte(name[1:]) {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return uint8(n), n < NumRegs
}

// IntRegName returns the ABI name of integer register n.
func IntRegName(n uint8) string {
	if int(n) < len(intRegName) {
		return intRegName[n]
	}
	return fmt.Sprintf("x%d", n)
}

// FRegName returns the name of FP register n.
func FRegName(n uint8) string { return fmt.Sprintf("f%d", n) }
