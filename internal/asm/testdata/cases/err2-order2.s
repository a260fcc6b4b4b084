_start:
	j nowhere
	addi a0, a0, 9000
