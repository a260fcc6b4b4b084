_start:
	addi a0, a0, 9000
	j nowhere
