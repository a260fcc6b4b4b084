_start:
	j
