_start:
	addi a0, a0, _start
	addi a0, a0, 9000
