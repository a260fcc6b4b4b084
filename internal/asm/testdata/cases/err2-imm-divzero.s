_start:
	addi a0, a0, 1/0
