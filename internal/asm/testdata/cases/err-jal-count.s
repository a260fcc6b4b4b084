_start:
	jal
