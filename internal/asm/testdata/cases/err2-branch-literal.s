_start:
	beq a0, a1, 0x10008
	nop
	halt
