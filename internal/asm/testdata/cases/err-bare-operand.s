_start:
	nop a0
