_start:
	lid a0, nowhere
