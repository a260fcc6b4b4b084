_start:
	jr 5
