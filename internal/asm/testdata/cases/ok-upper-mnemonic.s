_start:
	LI A0, 5
	HALT
	FADD F0, F1, F2
