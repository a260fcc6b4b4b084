_start:
	li 5, 5
