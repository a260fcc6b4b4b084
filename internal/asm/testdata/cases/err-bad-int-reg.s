_start:
	add q0, a1, a2
