_start:
	addi a0, a0, -8193
