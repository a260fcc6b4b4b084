_start:
	li a0, nowhere
