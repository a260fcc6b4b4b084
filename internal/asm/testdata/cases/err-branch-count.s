_start:
	beq a0, _start
