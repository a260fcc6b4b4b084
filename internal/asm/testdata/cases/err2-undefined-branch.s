_start:
	beq a0, a1, nowhere
